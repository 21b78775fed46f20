//! Load predictors: forecast the next adjustment interval from history.
//!
//! Three predictors, in increasing sophistication (mirroring the planner
//! families of NVIDIA Dynamo's SLA-based planner):
//!
//! * **Constant** — the next interval looks like the last one. Optimal for
//!   genuinely stationary traffic, lags every ramp by one interval.
//! * **EWMA** — exponentially weighted moving average. Smooths noise;
//!   still lags trends.
//! * **Holt–Winters** — double exponential smoothing (level + trend) with
//!   optional additive seasonality. Extrapolates ramps and anticipates
//!   periodic load (diurnal cycles) once it has seen a full season.
//!
//! The smoothing factors are fixed: EWMA weights the newest observation
//! 0.5; Holt smooths level 0.5 and trend 0.3; seasonal Holt–Winters
//! smooths level 0.5, trend 0.2 and season 0.5.
//!
//! Every predictor is pure arithmetic over its inputs — deterministic,
//! allocation-light, and independent per forecast component (request rate,
//! input length, output length are forecast as three scalar series).

use crate::load::LoadSample;

/// Weight of the newest observation in the EWMA.
const EWMA_ALPHA: f64 = 0.5;
/// Level smoothing factor of Holt–Winters, seasonal or not.
const HOLT_ALPHA: f64 = 0.5;
/// Trend smoothing factor without seasonality (Holt's linear trend).
const HOLT_BETA: f64 = 0.3;
/// Trend smoothing factor with seasonality.
const HOLT_WINTERS_BETA: f64 = 0.2;
/// Seasonal smoothing factor.
const HOLT_WINTERS_GAMMA: f64 = 0.5;

/// Which scalar predictor to instantiate (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// Repeat the last observation.
    Constant,
    /// Exponentially weighted moving average (newest observation weighted
    /// 0.5).
    Ewma,
    /// Holt–Winters with level smoothing 0.5 over an additive season of
    /// `season_len` intervals, smoothing trend 0.2 and season 0.5.
    /// `season_len == 0` disables seasonality, leaving Holt's linear
    /// trend method, which smooths its trend 0.3.
    HoltWinters {
        /// Intervals per season (0 = no seasonality).
        season_len: usize,
    },
}

impl PredictorKind {
    /// EWMA ([`PredictorKind::Ewma`]).
    pub const fn ewma() -> Self {
        PredictorKind::Ewma
    }

    /// Holt–Winters with trend only (no seasonality).
    pub const fn holt() -> Self {
        PredictorKind::holt_winters(0)
    }

    /// Seasonal Holt–Winters over `season_len` intervals.
    pub const fn holt_winters(season_len: usize) -> Self {
        PredictorKind::HoltWinters { season_len }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PredictorKind::Constant => "constant",
            PredictorKind::Ewma => "ewma",
            PredictorKind::HoltWinters { season_len: 0 } => "holt",
            PredictorKind::HoltWinters { .. } => "holt-winters",
        }
    }

    fn build(&self) -> SeriesPredictor {
        match *self {
            PredictorKind::Constant => SeriesPredictor::Constant { last: None },
            PredictorKind::Ewma => SeriesPredictor::Ewma { level: None },
            PredictorKind::HoltWinters { season_len } => SeriesPredictor::HoltWinters {
                season_len,
                level: None,
                trend: 0.0,
                seasonal: vec![0.0; season_len],
                observed: 0,
            },
        }
    }
}

/// One-step-ahead forecaster for a scalar series.
#[derive(Debug, Clone)]
enum SeriesPredictor {
    Constant {
        last: Option<f64>,
    },
    Ewma {
        level: Option<f64>,
    },
    HoltWinters {
        season_len: usize,
        level: Option<f64>,
        trend: f64,
        seasonal: Vec<f64>,
        observed: usize,
    },
}

impl SeriesPredictor {
    fn observe(&mut self, value: f64) {
        match self {
            SeriesPredictor::Constant { last } => *last = Some(value),
            SeriesPredictor::Ewma { level } => {
                *level = Some(match *level {
                    None => value,
                    Some(l) => EWMA_ALPHA * value + (1.0 - EWMA_ALPHA) * l,
                });
            }
            SeriesPredictor::HoltWinters {
                season_len,
                level,
                trend,
                seasonal,
                observed,
            } => {
                let season_idx = if *season_len > 0 {
                    *observed % *season_len
                } else {
                    0
                };
                match *level {
                    None => {
                        *level = Some(value);
                        *trend = 0.0;
                    }
                    Some(l) => {
                        let s = if *season_len > 0 && *observed >= *season_len {
                            seasonal[season_idx]
                        } else {
                            0.0
                        };
                        let new_level =
                            HOLT_ALPHA * (value - s) + (1.0 - HOLT_ALPHA) * (l + *trend);
                        let beta = if *season_len > 0 {
                            HOLT_WINTERS_BETA
                        } else {
                            HOLT_BETA
                        };
                        *trend = beta * (new_level - l) + (1.0 - beta) * *trend;
                        *level = Some(new_level);
                    }
                }
                if *season_len > 0 {
                    let l = level.expect("set above");
                    let deviation = value - l;
                    seasonal[season_idx] = if *observed < *season_len {
                        // First pass through the season: take the raw
                        // deviation as the initial seasonal index.
                        deviation
                    } else {
                        HOLT_WINTERS_GAMMA * deviation
                            + (1.0 - HOLT_WINTERS_GAMMA) * seasonal[season_idx]
                    };
                }
                *observed += 1;
            }
        }
    }

    /// Forecast `steps ≥ 1` intervals ahead; `None` before any observation.
    ///
    /// Constant and EWMA are flat extrapolators (every step reads the same
    /// value); Holt–Winters extends the trend linearly and reads the
    /// seasonal index of the target step.
    fn forecast_ahead(&self, steps: usize) -> Option<f64> {
        debug_assert!(steps >= 1, "forecast horizon starts at one step");
        match self {
            SeriesPredictor::Constant { last } => *last,
            SeriesPredictor::Ewma { level, .. } => *level,
            SeriesPredictor::HoltWinters {
                season_len,
                level,
                trend,
                seasonal,
                observed,
                ..
            } => {
                let level = (*level)?;
                let s = if *season_len > 0 && *observed >= *season_len {
                    seasonal[(*observed + steps - 1) % *season_len]
                } else {
                    0.0
                };
                Some((level + *trend * steps as f64 + s).max(0.0))
            }
        }
    }
}

/// Forecasts the three components of a [`LoadSample`] independently.
#[derive(Debug, Clone)]
pub struct LoadPredictor {
    kind: PredictorKind,
    rate: SeriesPredictor,
    input: SeriesPredictor,
    output: SeriesPredictor,
}

impl LoadPredictor {
    /// Creates a predictor of the given kind.
    pub fn new(kind: PredictorKind) -> Self {
        LoadPredictor {
            kind,
            rate: kind.build(),
            input: kind.build(),
            output: kind.build(),
        }
    }

    /// The configured predictor kind.
    pub fn kind(&self) -> PredictorKind {
        self.kind
    }

    /// Feeds one interval's observed load.
    pub fn observe(&mut self, sample: LoadSample) {
        let sample = sample.sanitized();
        self.rate.observe(sample.request_rate);
        self.input.observe(sample.mean_input_tokens);
        self.output.observe(sample.mean_output_tokens);
    }

    /// Forecast for the next interval ([`LoadSample::ZERO`] before any
    /// observation).
    pub fn forecast(&self) -> LoadSample {
        self.forecast_ahead(1)
    }

    /// Forecast `steps ≥ 1` intervals ahead ([`LoadSample::ZERO`] before
    /// any observation).
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    pub fn forecast_ahead(&self, steps: usize) -> LoadSample {
        assert!(steps >= 1, "forecast horizon starts at one step");
        LoadSample {
            request_rate: self.rate.forecast_ahead(steps).unwrap_or(0.0),
            mean_input_tokens: self.input.forecast_ahead(steps).unwrap_or(0.0),
            mean_output_tokens: self.output.forecast_ahead(steps).unwrap_or(0.0),
        }
        .sanitized()
    }

    /// Component-wise maximum of the forecasts for steps `1..=horizon` —
    /// the conservative load to provision against when new capacity takes
    /// `horizon - 1` extra intervals to come up (see ROADMAP: a warm-up
    /// delay longer than one adjustment interval must not lag step
    /// bursts).
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn forecast_horizon_max(&self, horizon: usize) -> LoadSample {
        assert!(horizon >= 1, "forecast horizon starts at one step");
        (1..=horizon)
            .map(|k| self.forecast_ahead(k))
            .fold(LoadSample::ZERO, |acc, f| LoadSample {
                request_rate: acc.request_rate.max(f.request_rate),
                mean_input_tokens: acc.mean_input_tokens.max(f.mean_input_tokens),
                mean_output_tokens: acc.mean_output_tokens.max(f.mean_output_tokens),
            })
            .sanitized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(kind: PredictorKind, values: &[f64]) -> f64 {
        let mut p = kind.build();
        for &v in values {
            p.observe(v);
        }
        p.forecast_ahead(1).expect("observed at least once")
    }

    #[test]
    fn constant_repeats_last() {
        assert_eq!(feed(PredictorKind::Constant, &[3.0, 9.0, 5.0]), 5.0);
    }

    #[test]
    fn ewma_converges_to_stationary_level() {
        let values = vec![10.0; 50];
        let f = feed(PredictorKind::ewma(), &values);
        assert!((f - 10.0).abs() < 1e-9);
        // Smooths an outlier instead of chasing it.
        let mut with_spike = vec![10.0; 50];
        with_spike.push(100.0);
        let f = feed(PredictorKind::ewma(), &with_spike);
        assert!(f > 10.0 && f < 60.0, "spiked forecast {f}");
    }

    #[test]
    fn holt_extrapolates_linear_ramp() {
        // y_t = 2t: after enough observations the trend term predicts
        // ahead of the last value, while EWMA lags behind it.
        let ramp: Vec<f64> = (0..60).map(|t| 2.0 * t as f64).collect();
        let last = *ramp.last().unwrap();
        let holt = feed(PredictorKind::holt(), &ramp);
        let ewma = feed(PredictorKind::ewma(), &ramp);
        assert!(holt > last, "holt {holt} should lead the ramp past {last}");
        assert!((holt - (last + 2.0)).abs() < 1.0, "holt forecast {holt}");
        assert!(ewma < last, "ewma {ewma} should lag the ramp");
    }

    #[test]
    fn holt_winters_learns_seasonality() {
        // Period-8 square wave: 4 low intervals (10), 4 high (50).
        let season: Vec<f64> = (0..8).map(|i| if i < 4 { 10.0 } else { 50.0 }).collect();
        let mut p = PredictorKind::holt_winters(8).build();
        for _ in 0..6 {
            for &v in &season {
                p.observe(v);
            }
        }
        // Next interval is the start of the low phase; a seasonal model
        // must predict low even though the last observation was high.
        let f = p.forecast_ahead(1).unwrap();
        assert!(f < 25.0, "seasonal forecast {f} should anticipate the dip");
        // Step through the low phase; at the boundary it must predict the
        // coming high phase.
        for _ in 0..4 {
            p.observe(10.0);
        }
        let f = p.forecast_ahead(1).unwrap();
        assert!(f > 35.0, "seasonal forecast {f} should anticipate the peak");
    }

    #[test]
    fn forecast_never_negative() {
        // A steep downward ramp would extrapolate below zero without the
        // clamp.
        let ramp: Vec<f64> = (0..30).map(|t| 100.0 - 10.0 * t as f64).collect();
        let f = feed(PredictorKind::holt(), &ramp);
        assert!(f >= 0.0, "forecast {f}");
    }

    #[test]
    fn load_predictor_tracks_components_independently() {
        let mut p = LoadPredictor::new(PredictorKind::Constant);
        assert_eq!(p.forecast(), LoadSample::ZERO);
        p.observe(LoadSample {
            request_rate: 5.0,
            mean_input_tokens: 120.0,
            mean_output_tokens: 340.0,
        });
        let f = p.forecast();
        assert_eq!(f.request_rate, 5.0);
        assert_eq!(f.mean_input_tokens, 120.0);
        assert_eq!(f.mean_output_tokens, 340.0);
    }

    #[test]
    fn holt_horizon_extends_the_trend() {
        // y_t = 2t: the k-step forecast must lead by about 2k.
        let ramp: Vec<f64> = (0..60).map(|t| 2.0 * t as f64).collect();
        let mut p = PredictorKind::holt().build();
        for &v in &ramp {
            p.observe(v);
        }
        let one = p.forecast_ahead(1).unwrap();
        let three = p.forecast_ahead(3).unwrap();
        assert!(
            (three - one - 4.0).abs() < 0.5,
            "3-step {three} vs 1-step {one}"
        );
    }

    #[test]
    fn flat_predictors_have_flat_horizons() {
        for kind in [PredictorKind::Constant, PredictorKind::ewma()] {
            let mut p = kind.build();
            for v in [3.0, 7.0, 5.0] {
                p.observe(v);
            }
            assert_eq!(p.forecast_ahead(1), p.forecast_ahead(5));
        }
    }

    #[test]
    fn horizon_max_dominates_single_step() {
        let mut p = LoadPredictor::new(PredictorKind::holt());
        for t in 0..30 {
            p.observe(LoadSample {
                request_rate: t as f64,
                mean_input_tokens: 100.0,
                mean_output_tokens: 200.0,
            });
        }
        let one = p.forecast();
        let horizon = p.forecast_horizon_max(4);
        assert!(horizon.request_rate >= one.request_rate);
        assert!(horizon.mean_input_tokens >= one.mean_input_tokens);
    }

    #[test]
    fn seasonal_horizon_reads_future_season_indices() {
        // Period-4 square wave: 2 low (10), 2 high (50). Right before the
        // high phase, a 2-step horizon max must anticipate the peak even
        // though the 1-step forecast may still read low.
        let season = [10.0, 10.0, 50.0, 50.0];
        let mut p = LoadPredictor::new(PredictorKind::holt_winters(4));
        for _ in 0..8 {
            for v in season {
                p.observe(LoadSample {
                    request_rate: v,
                    mean_input_tokens: 100.0,
                    mean_output_tokens: 100.0,
                });
            }
        }
        // Next index is the low phase start; two steps later is still low,
        // three steps ahead is high.
        let h3 = p.forecast_horizon_max(3);
        assert!(
            h3.request_rate > 35.0,
            "horizon max {} should see the coming peak",
            h3.request_rate
        );
    }

    #[test]
    #[should_panic(expected = "horizon starts at one")]
    fn zero_horizon_panics() {
        let _ = LoadPredictor::new(PredictorKind::ewma()).forecast_horizon_max(0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Predictors converge on stationary series: forecast within
            /// 1% of the level after 100 identical observations.
            #[test]
            fn stationary_convergence(
                level in 0.1f64..1e6,
                kind_idx in 0usize..4,
            ) {
                let kind = [
                    PredictorKind::Constant,
                    PredictorKind::ewma(),
                    PredictorKind::holt(),
                    PredictorKind::holt_winters(6),
                ][kind_idx];
                let f = feed(kind, &vec![level; 100]);
                prop_assert!(
                    (f - level).abs() / level < 0.01,
                    "{} forecast {f} vs level {level}",
                    kind.label()
                );
            }

            /// Forecasts are always finite and non-negative for arbitrary
            /// non-negative inputs.
            #[test]
            fn forecasts_stay_finite(
                values in proptest::collection::vec(0.0f64..1e9, 1..100),
                kind_idx in 0usize..4,
            ) {
                let kind = [
                    PredictorKind::Constant,
                    PredictorKind::ewma(),
                    PredictorKind::holt(),
                    PredictorKind::holt_winters(5),
                ][kind_idx];
                let f = feed(kind, &values);
                prop_assert!(f.is_finite() && f >= 0.0, "forecast {f}");
            }
        }
    }
}
