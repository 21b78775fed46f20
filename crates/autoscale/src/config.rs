//! Autoscaler configuration.

use pf_metrics::SimDuration;

use crate::policy::PolicyConfig;
use crate::predictor::PredictorKind;

/// Full configuration of the elastic-scaling planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// How often the planner re-evaluates the fleet size (also the
    /// load-observation window).
    pub interval: SimDuration,
    /// Delay between provisioning a replica and it accepting traffic
    /// (instance boot, weight load, warm-up batches).
    pub warmup: SimDuration,
    /// Load-forecasting method.
    pub predictor: PredictorKind,
    /// Replica bounds and hysteresis.
    pub policy: PolicyConfig,
    /// Assumed mean prompt length before any arrival has been observed.
    pub initial_mean_input_tokens: f64,
    /// Assumed mean output length before any completion has been observed
    /// (mirrors the serving engine's cold-start output estimate).
    pub initial_mean_output_tokens: f64,
}

impl AutoscaleConfig {
    /// Defaults for a `[min, max]`-replica fleet: 10 s adjustment
    /// interval, 30 s warm-up, trend-only Holt forecasting.
    ///
    /// # Panics
    ///
    /// Panics if `min == 0` or `min > max`.
    pub fn bounded(min_replicas: usize, max_replicas: usize) -> Self {
        AutoscaleConfig {
            interval: SimDuration::from_secs(10),
            warmup: SimDuration::from_secs(30),
            predictor: PredictorKind::holt(),
            policy: PolicyConfig::bounded(min_replicas, max_replicas),
            initial_mean_input_tokens: 256.0,
            initial_mean_output_tokens: 256.0,
        }
    }

    /// Sets the adjustment interval.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn interval(mut self, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "zero adjustment interval");
        self.interval = interval;
        self
    }

    /// Sets the instance warm-up delay (zero is allowed: pre-warmed pool).
    pub fn warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Sets the load predictor.
    pub fn predictor(mut self, predictor: PredictorKind) -> Self {
        self.predictor = predictor;
        self
    }

    /// Replaces the policy parameters.
    pub fn policy(mut self, policy: PolicyConfig) -> Self {
        self.policy = policy;
        self
    }

    /// Seeds the cold-start length assumptions (e.g. from workload
    /// history, mirroring the engine's `history_warmup`).
    pub fn initial_lengths(mut self, mean_input: f64, mean_output: f64) -> Self {
        assert!(
            mean_input >= 0.0 && mean_output >= 0.0,
            "negative initial lengths"
        );
        self.initial_mean_input_tokens = mean_input;
        self.initial_mean_output_tokens = mean_output;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = AutoscaleConfig::bounded(1, 6)
            .interval(SimDuration::from_secs(5))
            .warmup(SimDuration::from_secs(20))
            .predictor(PredictorKind::holt_winters(12))
            .initial_lengths(300.0, 1800.0);
        assert_eq!(c.interval, SimDuration::from_secs(5));
        assert_eq!(c.warmup, SimDuration::from_secs(20));
        assert_eq!(c.policy.min_replicas, 1);
        assert_eq!(c.policy.max_replicas, 6);
        assert_eq!(c.initial_mean_output_tokens, 1800.0);
    }

    #[test]
    #[should_panic(expected = "zero adjustment interval")]
    fn zero_interval_panics() {
        let _ = AutoscaleConfig::bounded(1, 2).interval(SimDuration::ZERO);
    }
}
