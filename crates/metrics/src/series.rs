//! Step-weighted time series.
//!
//! Memory-utilization statistics in the paper (Figure 1, Table 1) are
//! averages over *time*, not over samples: a long decode step at 95%
//! utilization must weigh more than a short one at 50%. [`StepSeries`]
//! records `(time, value)` observations where each value holds until the
//! next observation, and computes duration-weighted statistics.

use crate::time::{SimDuration, SimTime};

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

    /// Duration-weighted mean over `[start, end)`.
    ///
    /// Points outside the range are clipped; the value in force at `start`
    /// is the last point at or before `start`. Returns `None` when the range
    /// is empty or no value is in force anywhere within it.
    pub fn time_weighted_mean(&self, start: SimTime, end: SimTime) -> Option<f64> {
        if end <= start || self.points.is_empty() {
            return None;
        }
        let mut weighted = 0.0;
        let mut total = SimDuration::ZERO;
        // Index of first point strictly after `start`.
        let first_after = self.points.partition_point(|&(t, _)| t <= start);
        // Value in force at `start`, if any.
        let mut current: Option<f64> = first_after.checked_sub(1).map(|i| self.points[i].1);
        let mut cursor = start;
        for &(t, v) in &self.points[first_after..] {
            if t >= end {
                break;
            }
            if let Some(cv) = current {
                let span = t - cursor;
                weighted += cv * span.as_secs_f64();
                total += span;
            }
            current = Some(v);
            cursor = t;
        }
        if let Some(cv) = current {
            let span = end - cursor;
            weighted += cv * span.as_secs_f64();
            total += span;
        }
        if total.is_zero() {
            None
        } else {
            Some(weighted / total.as_secs_f64())
        }
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
    fn weighted_mean_basic() {
        let mut s = StepSeries::new();
        s.record(t(0), 1.0); // holds [0, 10)
        s.record(t(10), 3.0); // holds [10, 20)
        let m = s.time_weighted_mean(t(0), t(20)).unwrap();
        assert!((m - 2.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_mean_unequal_spans() {
        let mut s = StepSeries::new();
        s.record(t(0), 0.0); // [0, 30): 0
        s.record(t(30), 1.0); // [30, 40): 1
        let m = s.time_weighted_mean(t(0), t(40)).unwrap();
        assert!((m - 0.25).abs() < 1e-12);
    }

    #[test]
    fn weighted_mean_clips_range() {
        let mut s = StepSeries::new();
        s.record(t(0), 10.0);
        s.record(t(10), 20.0);
        // Only look at [5, 15): 5s of 10.0 and 5s of 20.0.
        let m = s.time_weighted_mean(t(5), t(15)).unwrap();
        assert!((m - 15.0).abs() < 1e-12);
    }

    #[test]
    fn mean_before_first_point_is_none() {
        let mut s = StepSeries::new();
        s.record(t(10), 5.0);
        assert_eq!(s.time_weighted_mean(t(0), t(10)), None);
        // Range covering the point works.
        assert_eq!(s.time_weighted_mean(t(10), t(20)), Some(5.0));
    }

    #[test]
    fn overall_mean_and_max() {
        let mut s = StepSeries::new();
        s.record(t(0), 1.0);
        s.record(t(1), 5.0);
        s.record(t(3), 2.0);
        assert_eq!(s.max_value(), Some(5.0));
        // [0,1): 1.0; [1,3): 5.0; the final value never accrues time.
        let m = s.time_weighted_mean(t(0), t(3)).unwrap();
        assert!((m - (1.0 + 5.0 * 2.0) / 3.0).abs() < 1e-12);
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

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn mean_within_value_bounds(
                values in proptest::collection::vec(0.0f64..100.0, 2..50),
            ) {
                let mut s = StepSeries::new();
                for (i, &v) in values.iter().enumerate() {
                    s.record(SimTime::from_secs(i as u64), v);
                }
                let end = SimTime::from_secs(values.len() as u64 - 1);
                let m = s.time_weighted_mean(SimTime::ZERO, end).unwrap();
                let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(m >= min - 1e-9 && m <= max + 1e-9);
            }
        }
    }
}
